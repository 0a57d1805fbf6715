import argparse
import csv
import functools
import io
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shellact import configio
from shellact.brace import default_layout, default_valgus_schedule
from shellact.cli import _write, build_parser, main
from shellact.geometry import equal_area_family
from config_writer import cross_section_to_dict, dump_yaml, layout_to_dict, schedule_to_dict

ENGINEERED_SPEC_YAML = {
    "cross_section": {
        "kind": "rounded_rectangle",
        "width_mm": 60.0,
        "height_mm": 40.0,
        "corner_radius_mm": 8.0,
    },
    "loss_model": {
        "form": "exponential",
        "amplitude": 0.993,
        "decay_per_kpa": 0.07,
        "valid_range_kpa": [5, 50],
    },
    "max_pressure_kpa": 50,
    "stroke_mm": 5,
}


def run(args):
    return main(args)


def subcommand_options():
    """Each subcommand's argparse actions that take an option string, -h/--help left out."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in parser._actions if a.option_strings and a.dest != "help"]
            for name, parser in subparsers.choices.items()}


class TestParser:
    def test_option_strings_are_pinned(self):
        # a flag added or removed shows up here as a reviewed diff
        options = {name: [s for a in actions for s in a.option_strings]
                   for name, actions in subcommand_options().items()}
        assert options == {
            "geometry": ["--radius", "--aspect", "--out"],
            "predict": ["--spec", "--pressures", "--out"],
            "generate": ["--seed", "--trials", "--noise-sigma", "--out"],
            "fit": ["--input", "--shapes", "--window", "--trials", "--out"],
            "simulate": ["--layout", "--schedule", "--duration", "--dt", "--tau", "--cycles",
                         "--out"],
        }

    @pytest.mark.parametrize("argv", [["fit", "--input", "x.csv", "--format", "csv"],
                                      ["simulate", "--format", "svg"]])
    def test_format_is_not_an_option(self, tmp_path, capsys, argv):
        assert run([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--format" in err.splitlines()[0]
        assert not (tmp_path / "out").exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_limited(args, stdin=""):
    """Exit code and stderr of the CLI in a new interpreter limited to 2 GiB of address space.

    A run that allocates far more than it may fails fast there instead of
    exhausting the machine.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "shellact.cli", *args], input=stdin, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, preexec_fn=limit, timeout=120,
    )
    return proc.returncode, proc.stderr


class TestGeometry:
    def test_table_contains_square_side(self, capsys):
        assert run(["geometry", "--radius", "25", "--aspect", "2"]) == 0
        out = capsys.readouterr().out
        assert "square(side_mm=44.3113)" in out
        assert "1963.4954" in out

    def test_bad_aspect_exits_2(self, capsys):
        assert run(["geometry", "--radius", "25", "--aspect", "0.5"]) == 2

    def test_aspect_one_rectangle_equals_square(self, capsys):
        assert run(["geometry", "--radius", "25", "--aspect", "1"]) == 0
        out = capsys.readouterr().out
        assert "rectangle(width_mm=44.3113, height_mm=44.3113)" in out

    def test_missing_flag_is_usage_error(self):
        assert run(["geometry"]) == 1


class TestPredict:
    def test_balloon_default_span(self, capsys):
        assert run(["predict", "--pressures", "30,35,40,45,50,55,60"]) == 0
        lines = capsys.readouterr().out.splitlines()
        forces = [float(row.split(",")[2]) for row in lines[1:]]
        assert forces[0] == pytest.approx(36.99, abs=0.01)
        assert forces[-1] == pytest.approx(91.66, abs=0.01)

    def test_engineered_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.yaml"
        spec_file.write_text(yaml.safe_dump(ENGINEERED_SPEC_YAML))
        assert run(["predict", "--spec", str(spec_file), "--pressures", "50"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) >= 100.0
        assert float(row[3]) == pytest.approx(0.03, abs=0.001)

    def test_force_past_the_float_range_exits_2_naming_pressure_and_area(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.yaml"
        spec_file.write_text("cross_section: {kind: square, side_mm: 1.0e154}\n"
                             f"loss_model: {LINEAR_LOSS}\n")
        assert run(["predict", "--spec", str(spec_file), "--pressures", "30"]) == 2
        assert capsys.readouterr() == (
            "", "error: P*A overflows the float range: pressure 30.0 kPa, area 1e+308 mm^2\n"
        )

    @pytest.mark.parametrize("kind", ["circle, radius_mm", "equilateral_triangle, side_mm",
                                      "square, side_mm"])
    def test_area_past_the_float_range_exits_2_naming_it(self, tmp_path, capsys, kind):
        spec_file = tmp_path / "spec.yaml"
        spec_file.write_text(f"cross_section: {{kind: {kind}: 1.0e155}}\n"
                             f"loss_model: {LINEAR_LOSS}\n")
        assert run(["predict", "--spec", str(spec_file), "--pressures", "30"]) == 2
        assert capsys.readouterr() == (
            "", "error: P*A overflows the float range: pressure 30.0 kPa, area inf mm^2\n"
        )

    def test_over_cap_pressure_exits_2_naming_the_actuator_max(self, capsys):
        assert run(["predict", "--pressures", "30,61"]) == 2
        err = "error: pressure 61.0 kPa exceeds actuator max 60.0 kPa\n"
        assert capsys.readouterr() == ("", err)

    def test_extrapolated_column_flags_pressures_outside_the_valid_range(self, tmp_path, capsys):
        # the balloon model holds over [30, 60] kPa, both bounds included
        assert run(["predict", "--pressures", "10,30,60"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["1", "0", "0"]
        spec_file = tmp_path / "spec.yaml"
        spec_file.write_text("cross_section: {kind: circle, radius_mm: 25}\n"
                             f"loss_model: {LINEAR_LOSS}\n"
                             "max_pressure_kpa: 70\nallow_extrapolation: true\n")
        assert run(["predict", "--spec", str(spec_file), "--pressures", "65"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "1"

    def test_zero_pressure_row(self, capsys):
        assert run(["predict", "--pressures", "0"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[1]) == 0.0
        assert float(row[2]) == 0.0


class TestGenerateAndFit:
    def test_generate_then_fit_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["generate", "--seed", "0", "--noise-sigma", "0", "--out", str(out)]) == 0
        assert run(
            ["fit", "--input", str(out / "measurements.csv"), "--out", str(out)]
        ) == 0
        fit_csv = (out / "fit_report.csv").read_text()
        # forces are serialized at 4 decimal places, which perturbs the
        # recovered coefficients at the 1e-6 level
        for row in fit_csv.splitlines()[1:]:
            cols = row.split(",")
            assert float(cols[3]) == pytest.approx(-0.005, abs=1e-5)
            assert float(cols[4]) == pytest.approx(0.522, abs=1e-4)
            assert float(cols[5]) == pytest.approx(1.0, abs=1e-4)

    def test_noisy_fit_reports_high_r_squared(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["generate", "--seed", "1", "--out", str(out)]) == 0
        assert run(["fit", "--input", str(out / "measurements.csv"), "--out", str(out)]) == 0
        fit_cssv = (out / "fit_report.csv").read_text()
        for row in fit_cssv.splitlines()[1:]:
            assert float(row.split(",")[5]) >= 0.97

    def test_missing_step_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(["generate", "--seed", "0", "--noise-sigma", "0", "--out", str(out)])
        src = out / "measurements.csv"
        lines = [
            l
            for l in src.read_text().splitlines()
            if not l.startswith("square,45.0000")
        ]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["fit", "--input", str(bad), "--out", str(out)]) == 2
        assert "missing step" in capsys.readouterr().err

    def test_step_outside_the_protocol_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        run(["generate", "--seed", "0", "--noise-sigma", "0", "--out", str(out)])
        bad = tmp_path / "extra.csv"
        extra = "".join(f"circle,32.5000,{t},30.0000\n" for t in (1, 2, 3))
        bad.write_text((out / "measurements.csv").read_text() + extra)
        assert run(["fit", "--input", str(bad), "--out", str(tmp_path / "fit")]) == 2
        assert capsys.readouterr().err == (
            "protocol violation: unexpected step: "
            "shape 'circle' has a 32.5 kPa record outside the protocol\n"
        )
        assert not (tmp_path / "fit").exists()

    def test_generate_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["generate", "--seed", "7", "--out", str(a)])
        run(["generate", "--seed", "7", "--out", str(b)])
        assert (a / "measurements.csv").read_bytes() == (b / "measurements.csv").read_bytes()

    def test_fit_svg_is_valid_xml_with_one_polyline_per_shape(self, tmp_path):
        out = tmp_path / "run"
        run(["generate", "--seed", "0", "--out", str(out)])
        run(["fit", "--input", str(out / "measurements.csv"), "--out", str(out)])
        svg = (out / "loss_vs_pressure.svg").read_text()
        root = ET.fromstring(svg)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 4

    def test_window_with_too_few_points_exits_2_naming_the_shape(self, tmp_path, capsys):
        assert run(["generate", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["fit", "--input", str(tmp_path / "measurements.csv"), "--window", "55", "60"]
        assert run([*argv, "--out", str(tmp_path / "fit")]) == 2
        assert capsys.readouterr() == ("", "error: shape 'circle': need >= 3 points "
                                           "inside window [55.0, 60.0], got 2\n")
        assert not (tmp_path / "fit").exists()

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


LINEAR_LOSS = "{form: linear, slope_per_kpa: -0.005, intercept: 0.522, valid_range_kpa: [30, 60]}"


def layout_text(**first_entry):
    """The default layout as YAML, its first actuator entry (thigh_medial) updated."""
    layout = layout_to_dict(default_layout())
    layout["actuators"][0].update(first_entry)
    return yaml.safe_dump(layout)


# config files that once ended in a traceback or passed silently:
# (flag, file text, part of the message)
BAD_CONFIGS = {
    "phase_not_a_mapping": ("--schedule", "phases: [5]\n", "phase entry must be a mapping"),
    "pressures_a_list": (
        "--schedule",
        "phases:\n- {name: a, fraction: 1.0, pressures: [1, 2]}\n",
        "phase pressures must be a mapping",
    ),
    "actuator_not_a_mapping": ("--layout", "actuators: [5]\n", "actuator entry must be a mapping"),
    "cross_section_a_number": (
        "--spec",
        f"cross_section: 5\nloss_model: {LINEAR_LOSS}\n",
        "cross-section must be a mapping",
    ),
    "scalar_valid_range": (
        "--spec",
        "cross_section: {kind: circle, radius_mm: 25}\n"
        + "loss_model: " + LINEAR_LOSS.replace("[30, 60]", "60") + "\n",
        "valid_range_kpa must be a list",
    ),
    "shape_a_number": ("--shapes", "shapes: {circle: 5}\n", "cross-section must be a mapping"),
    "unclosed_flow_list": ("--schedule", "phases: [\n", "expected the node content"),
    "nan_fraction": (
        "--schedule",
        "phases:\n- {name: a, fraction: .nan, pressures: {knee_medial: 30}}\n",
        "phase 'a' has fraction nan",
    ),
    "nan_pressure": (
        "--schedule",
        "phases:\n- {name: a, fraction: 0.5, pressures: {knee_medial: .nan}}\n"
        "- {name: b, fraction: 0.5}\n",
        "phase 'a' commands nan kPa on 'knee_medial'",
    ),
    # exp(20 * P) overflowed math.exp, and the error named neither the file nor the field
    "negative_decay": (
        "--spec",
        "cross_section: {kind: circle, radius_mm: 25}\nloss_model: {form: exponential, "
        "amplitude: 0.993, decay_per_kpa: -20, valid_range_kpa: [5, 50]}\nmax_pressure_kpa: 50\n",
        "decay_per_kpa must be >= 0, got -20.0",
    ),
    # the clamp read this curve as no loss, so predict printed force = P*A and exited 0
    "loss_below_zero": (
        "--spec",
        "cross_section: {kind: circle, radius_mm: 25}\nloss_model: {form: exponential, "
        "amplitude: -0.5, decay_per_kpa: 0.07, valid_range_kpa: [5, 50]}\nmax_pressure_kpa: 50\n",
        "loss is below 0 over valid_range_kpa (5.0, 50.0): (-0.35",
    ),
    # used to write nan in every moment_nm cell of the trace
    "nan_lever_arm": (
        "--layout",
        layout_text(lever_arm_m=math.nan),
        "lever_arm_m of 'thigh_medial' must be finite, got nan",
    ),
    # a misspelt key used to be ignored, its value silently left at the default
    "spec_unknown_key": (
        "--spec",
        "cross_section: {kind: circle, radius_mm: 25}\n"
        f"loss_model: {LINEAR_LOSS}\nmax_presure_kpa: 40\n",
        "actuator spec has unknown key 'max_presure_kpa'",
    ),
    "shapes_unknown_key": (
        "--shapes",
        "shapes: {circle: {kind: circle, radius_mm: 25, side_mm: 30}}\n",
        "cross-section has unknown key 'side_mm'",
    ),
    "layout_unknown_key": (
        "--layout",
        layout_text(lever_arm_mm=200.0),
        "actuator entry has unknown key 'lever_arm_mm'",
    ),
    "schedule_unknown_key": (
        "--schedule",
        "phases:\n- {name: a, fraction: 1.0, pressure: {knee_medial: 30}}\n",
        "phase entry has unknown key 'pressure'",
    ),
    # bool() of any non-empty value is true, so these used to allow extrapolation
    **{f"extrapolation_flag_{name}": (
        "--spec",
        "cross_section: {kind: circle, radius_mm: 25}\n"
        + "loss_model: " + LINEAR_LOSS.replace("[30, 60]", "[30, 50]")
        + f"\nmax_pressure_kpa: 60\nallow_extrapolation: {value}\n",
        f"allow_extrapolation must be true or false, got {shown}",
    ) for name, value, shown in [("string", '"no"', "'no'"), ("list", "[0]", "[0]")]},
    # a falsy pressures used to read as a phase that commands nothing
    **{f"pressures_{name}": (
        "--schedule",
        f"phases:\n- {{name: a, fraction: 1.0, pressures: {value}}}\n",
        "phase pressures must be a mapping",
    ) for name, value in [("zero", "0"), ("false", "false"), ("empty_list", "[]"),
                          ("empty_string", '""')]},
    # a range of other than two values used to fail to unpack, naming no field
    **{f"valid_range_{name}": (
        "--spec",
        "cross_section: {kind: circle, radius_mm: 25}\n"
        + "loss_model: " + LINEAR_LOSS.replace("[30, 60]", value) + "\n",
        f"valid_range_kpa must be finite with 0 <= lo < hi, got {shown}",
    ) for name, value, shown in [("three_values", "[30, 45, 60]", "(30.0, 45.0, 60.0)"),
                                 ("one_value", "[30]", "(30.0,)")]},
    # str() used to turn any YAML value into an id or a name: null became 'None'
    **{f"actuator_id_{name}": ("--layout", layout_text(id=value),
                               f"actuator id must be a string, got {value!r}")
       for name, value in [("null", None), ("list", [1, 2]), ("boolean", True)]},
    **{f"phase_name_{name}": (
        "--schedule",
        f"phases:\n- {{name: {value}, fraction: 1.0}}\n",
        f"phase name must be a string, got {shown}",
    ) for name, value, shown in [("null", "null", "None"), ("list", "[a]", "['a']"),
                                 ("boolean", "true", "True")]},
    **{f"{where}_key_{name}": (flag, text.replace("KEY", key), message.replace("WHAT", what))
       for where, flag, what, text in [
           ("pressures", "--schedule", "pressures key",
            "phases:\n- {name: a, fraction: 1.0, pressures: {KEY: 30}}\n"),
           ("shapes", "--shapes", "shape id", "shapes: {KEY: {kind: circle, radius_mm: 25}}\n")]
       for name, key, message in [("null", "null", "WHAT must be a string, got None"),
                                  ("boolean", "false", "WHAT must be a string, got False"),
                                  ("list", "[a]", "found unhashable key")]},  # PyYAML's refusal
    # PyYAML's composer recurses once per level, so this used to end in a RecursionError
    "deep_nesting": ("--schedule", "phases: " + "[" * 1000 + "]" * 1000 + "\n", "nesting too deep"),
}


def config_argv(flag, path, one_trial_csv, out):
    """argv of the subcommand that reads a config file given by ``flag``."""
    _, fuzz_dir = one_trial_csv
    command = {
        "--schedule": ["simulate"],
        "--layout": ["simulate"],
        "--spec": ["predict", "--pressures", "30,45"],
        "--shapes": ["fit", "--trials", "1", "--input", str(fuzz_dir / "measurements.csv")],
    }[flag]
    return [*command, flag, str(path), "--out", str(out)]


def valid_config(flag):
    """A config the subcommand behind ``flag`` accepts, as YAML data."""
    if flag == "--schedule":
        return schedule_to_dict(default_valgus_schedule())
    if flag == "--layout":
        return layout_to_dict(default_layout())
    if flag == "--spec":
        return ENGINEERED_SPEC_YAML
    family = zip(["circle", "triangle", "square", "rectangle"], equal_area_family(25.0, 2.0))
    return {"shapes": {name: cross_section_to_dict(cs) for name, cs in family}}


def nodes(data, path=()):
    """Paths to every node of nested YAML data."""
    yield path
    if isinstance(data, (dict, list)):
        for key, value in data.items() if isinstance(data, dict) else enumerate(data):
            yield from nodes(value, (*path, key))


def replaced(data, path, value):
    """``data`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    head, *rest = path
    copy = dict(data) if isinstance(data, dict) else list(data)
    copy[head] = replaced(data[head], rest, value)
    return copy


CONFIG_FLAG_NAMES = ["--schedule", "--layout", "--spec", "--shapes"]
# every number in each valid config, as (flag, path)
NUMERIC_LEAVES = [
    (flag, path) for flag, data in ((flag, valid_config(flag)) for flag in CONFIG_FLAG_NAMES)
    for path in nodes(data)
    if type(functools.reduce(lambda node, key: node[key], path, data)) in (int, float)
]


YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)
CONFIG_FLAGS = st.sampled_from(CONFIG_FLAG_NAMES)


@pytest.fixture(scope="module")
def one_trial_csv(tmp_path_factory):
    """A conforming one-trial sweep CSV and a directory for fuzzed runs."""
    out = tmp_path_factory.mktemp("fuzz")
    assert main(["generate", "--trials", "1", "--seed", "3", "--out", str(out)]) == 0
    return (out / "measurements.csv").read_text(), out


class TestErrorContract:
    def test_zero_trials_exits_2(self, tmp_path, capsys):
        assert run(["generate", "--trials", "0", "--out", str(tmp_path)]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_noise_sigma_exits_2_naming_it(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert run(["generate", "--noise-sigma", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: noise_sigma_n must be finite and >= 0, got {float(value)!r}\n"
        assert not out.exists()

    def test_negative_zero_noise_sigma_writes_the_zero_noise_sweep(self, tmp_path):
        for name, value in [("negative", "-0.0"), ("zero", "0")]:
            assert run(["generate", "--noise-sigma", value, "--out", str(tmp_path / name)]) == 0
        written = {(tmp_path / name / "measurements.csv").read_bytes() for name in ["negative", "zero"]}
        assert len(written) == 1

    def test_overflowing_noise_sigma_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        for value in ("1e308", "1e300"):  # 1e300 used to write forces of about 300 digits
            assert run(["generate", "--noise-sigma", value, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == (
                "error: noise_sigma_n must be <= 117.8 N, the largest ideal force P*A of the "
                f"sweep (at stop_kpa 60.0), got {float(value)!r}\n"
            )
            assert not out.exists()

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["generate", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["1e200", "1e-200"])
    def test_radius_beyond_float_range_exits_2_naming_it(self, capsys, radius):
        assert run(["geometry", "--radius", radius]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: reference_radius_mm {float(radius)!r} ")

    def test_negative_pressure_exits_2(self, capsys):
        assert run(["predict", "--pressures=-5"]) == 2
        assert "pressure must be a finite non-negative kPa value" in capsys.readouterr().err

    def test_short_row_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("shape_id,pressure_kpa,trial,force_n\ncircle,30.0\n")
        assert run(["fit", "--input", str(bad), "--out", str(tmp_path)]) == 2
        assert "line 2: expected 4 fields, got 2" in capsys.readouterr().err

    def test_force_too_large_to_fit_exits_2(self, one_trial_csv, capsys):
        text, out = one_trial_csv
        huge = re.sub(r"(?m)^(circle,45.0000,1,).*$", r"\g<1>1e300", text)
        (out / "huge.csv").write_text(huge)
        argv = ["fit", "--trials", "1", "--input", str(out / "huge.csv"), "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_overflowing_force_names_the_shape(self, one_trial_csv, capsys):
        text, out = one_trial_csv
        huge = re.sub(r"(?m)^(circle,45.0000,1,).*$", r"\g<1>1e300", text)
        (out / "huge.csv").write_text(huge)
        argv = ["fit", "--trials", "1", "--input", str(out / "huge.csv"), "--out", str(out / "o")]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: shape 'circle' at 45 kPa: mean force 1e+300 N "
            "is above the ideal force P*A = 88.3573 N\n"
        )
        assert not (out / "o").exists()

    def test_force_above_ideal_exits_2_naming_the_step(self, one_trial_csv, capsys):
        text, out = one_trial_csv
        above = re.sub(r"(?m)^(circle,45.0000,1,).*$", r"\g<1>1e155", text)
        (out / "above.csv").write_text(above)
        argv = ["fit", "--trials", "1", "--input", str(out / "above.csv"), "--out", str(out / "a")]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: shape 'circle' at 45 kPa: mean force 1e+155 N "
            "is above the ideal force P*A = 88.3573 N\n"
        )
        assert not (out / "a").exists()

    def test_shape_id_with_comma_quoted_in_fit_report(self, one_trial_csv, tmp_path, capsys):
        text, _ = one_trial_csv
        (tmp_path / "comma.csv").write_text(re.sub(r"(?m)^circle,", '"a,b",', text))
        shapes = valid_config("--shapes")
        shapes["shapes"]["a,b"] = shapes["shapes"].pop("circle")
        dump_yaml(shapes, str(tmp_path / "shapes.yaml"))
        argv = ["fit", "--trials", "1", "--input", str(tmp_path / "comma.csv"),
                "--shapes", str(tmp_path / "shapes.yaml"), "--out", str(tmp_path / "out")]
        assert run(argv) == 0
        report = (tmp_path / "out" / "fit_report.csv").read_text()
        assert capsys.readouterr().out == report
        rows = list(csv.reader(io.StringIO(report)))
        assert {len(row) for row in rows} == {6}
        assert [row[0] for row in rows[1:]] == ["a,b", "rectangle", "square", "triangle"]

    def test_shape_without_cross_section_exits_2_naming_it(self, tmp_path, capsys):
        assert run(["generate", "--out", str(tmp_path)]) == 0
        shapes = valid_config("--shapes")
        shapes["shapes"] = {"circle": shapes["shapes"]["circle"]}
        dump_yaml(shapes, str(tmp_path / "shapes.yaml"))
        argv = ["fit", "--input", str(tmp_path / "measurements.csv"),
                "--shapes", str(tmp_path / "shapes.yaml"), "--out", str(tmp_path / "out")]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: shape 'rectangle' has no cross-section\n"

    def test_malformed_row_piped_to_fit_names_its_line(self, tmp_path):
        assert run(["generate", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "measurements.csv").read_text().splitlines(keepends=True)
        lines[11] = lines[11].rsplit(",", 1)[0] + ",4x5\n"
        argv = ["fit", "--input", "/dev/stdin", "--out", str(tmp_path / "out")]
        code, err = run_limited(argv, stdin="".join(lines))
        assert (code, err) == (2, "error: /dev/stdin: measurement CSV line 12: "
                                  "could not convert string to float: '4x5'\n")

    def test_data_error_names_the_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("shape_id,pressure_kpa,trial,force_n\ncircle,x,1,2.0\n")
        assert run(["fit", "--input", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: measurement CSV line 2: could not convert string to float: 'x'\n"
        )

    @pytest.mark.parametrize("argv, text, head", [
        (["simulate", "--schedule"], "phases: [[" + "0, " * 100_000 + "0]]\n",
         "phase entry must be a mapping, got [0, 0, 0, "),
        (["fit", "--input"], f"shape_id,pressure_kpa,trial,force_n\ncircle,{'x' * 200_000},1,2.0\n",
         "measurement CSV line 2: could not convert string to float: 'xxx"),
    ], ids=["schedule", "input"])
    def test_long_refused_value_is_cut_after_the_head(self, tmp_path, capsys, argv, text, head):
        path = tmp_path / "refused"
        path.write_text(text)
        assert run([*argv, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        cut = re.fullmatch(r"(.{1000})\.\.\. \[(\d+) characters cut\]\n", err, re.S)
        assert cut and cut[1].startswith(f"error: {path}: {head}")
        assert int(cut[2]) > 100_000

    def test_long_violation_line_is_cut_after_the_head(self, one_trial_csv, tmp_path, capsys):
        long_id = "a" * 200_000
        lines = [line.replace("circle,", f"{long_id},") for line in one_trial_csv[0].splitlines()
                 if not line.startswith("circle,45.0000,")]
        path = tmp_path / "long_id.csv"
        path.write_text("\n".join(lines) + "\n")
        argv = ["fit", "--trials", "1", "--input", str(path), "--out", str(tmp_path / "out")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        cut = re.fullmatch(r"(.{1000})\.\.\. \[(\d+) characters cut\]\n", err, re.S)
        assert cut and cut[1].startswith("protocol violation: missing step: shape 'aaa")
        assert int(cut[2]) > 100_000

    @pytest.mark.parametrize("old, new", [
        (b"\ncircle,", b"\n\xffcircle,"),
        (b"# seed: 3", b"# seed: \xff"),
        (b"\ncircle,", b"\ncircle\xed\xa0\x80,"),  # an encoded lone surrogate
        (b"\ncircle,45.0000,", b"\ncircle,45.0000\x85,"),  # loadtxt reads \x85 as a space
    ], ids=["id", "provenance", "lone-surrogate", "beside-a-number"])
    def test_input_that_is_not_utf8_exits_2_writing_nothing(self, one_trial_csv, tmp_path,
                                                           capsys, old, new):
        text, _ = one_trial_csv
        (tmp_path / "bad.csv").write_bytes(text.encode().replace(old, new, 1))
        argv = ["fit", "--trials", "1", "--input", str(tmp_path / "bad.csv"),
                "--out", str(tmp_path / "out")]
        assert run(argv) == 2
        assert "'utf-8' codec can't decode byte" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, rows", [
        (["simulate", "--dt", "1e-9", "--cycles", "10"], "a trace of 72000000000 rows"),
        (["generate", "--trials", "100000000"], "a sweep of 4800000000 rows"),
        (["simulate", "--dt", "1e-320"], "a trace of inf rows"),
    ], ids=["simulate", "generate", "simulate-subnormal-dt"])
    def test_work_above_the_row_cap_is_refused(self, tmp_path, args, rows):
        out = tmp_path / "out"
        assert run_limited([*args, "--out", str(out)]) == (
            2, f"error: {rows} exceeds the cap of 10000000 rows\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_header_only_sweep_exits_2_and_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("shape_id,pressure_kpa,trial,force_n\n")
        out = tmp_path / "out"
        assert run(["fit", "--input", str(empty), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "the dataset has no measurement rows" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, name, shown", [
        ("simulate --duration nan", "cycle_duration_s", "nan"),
        ("simulate --duration inf", "cycle_duration_s", "inf"),
        ("simulate --dt nan", "dt_s", "nan"),
        ("simulate --tau nan", "tau_s", "nan"),
        ("simulate --tau inf", "tau_s", "inf"),
        ("simulate --cycles -1", "n_cycles", "-1"),
        # beyond float range: the step count must not be computed first
        pytest.param("simulate --cycles 1" + "0" * 400, "n_cycles", "1" + "0" * 400,
                     id="simulate --cycles 10**400"),
        ("geometry --radius -1", "reference_radius_mm", "-1.0"),
        ("geometry --radius 0", "reference_radius_mm", "0.0"),
        ("geometry --aspect 0.5 --radius 25", "rectangle_aspect", "0.5"),
        ("geometry --aspect nan --radius 25", "rectangle_aspect", "nan"),
        ("generate --trials 0", "trials", "0"),
        ("fit --trials 0 --input {csv}", "trials", "0"),
        ("fit --window 60 30 --trials 1 --input {csv}", "window_kpa", "(60.0, 30.0)"),
        ("fit --window nan 30 --trials 1 --input {csv}", "window_kpa", "(nan, 30.0)"),
        ("fit --window 30 inf --trials 1 --input {csv}", "window_kpa", "(30.0, inf)"),
    ])
    def test_bad_flag_value_exits_2_naming_it(self, one_trial_csv, tmp_path, capsys,
                                              argv, name, shown):
        argv = argv.format(csv=one_trial_csv[1] / "measurements.csv").split()
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ") and err.endswith(f", got {shown}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_file_exits_2_naming_it(self, one_trial_csv, tmp_path, capsys, case):
        flag, text, message = BAD_CONFIGS[case]
        path = tmp_path / "config.yaml"
        path.write_text(text)
        assert run(config_argv(flag, path, one_trial_csv, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    # float(True) is 1.0, so a boolean used to read as the number 1 or 0; a NaN or an
    # infinite loss parameter used to pass, and predict then printed a loss of 0 or 1
    @pytest.mark.parametrize("value", [True, False, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("flag, path", NUMERIC_LEAVES,
                             ids=[f"{flag[2:]}-" + ".".join(map(str, path))
                                  for flag, path in NUMERIC_LEAVES])
    def test_boolean_for_a_number_exits_2_naming_the_file(self, one_trial_csv, tmp_path, capsys,
                                                          flag, path, value):
        config = tmp_path / "config.yaml"
        dump_yaml(replaced(valid_config(flag), path, value), str(config))
        assert run(config_argv(flag, config, one_trial_csv, tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}: ")



# field values for the CSV parser: numbers at the edges of what parses, then free text
ODD_FIELDS = st.sampled_from(
    ["", "nan", "-1", "0", "1e999", "99999999999999999999", "60.0001", '"a,b"', "circle"]
) | st.text(max_size=8)


def mutate(data, text, column_values):
    """``text`` with 1-3 data rows changed: a random column gets a drawn value."""
    lines = text.splitlines()
    first_row = lines.index("shape_id,pressure_kpa,trial,force_n") + 1
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(first_row, len(lines) - 1))
        fields = lines[i].split(",")
        column, values = data.draw(st.sampled_from(column_values))
        fields[column] = data.draw(values)
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


# text that is neither a number nor an option, so never an abbreviation of --help
FREE_TEXT = st.text(max_size=6).filter(lambda t: not t.startswith("-"))
# the options that size the work, bounded so an in-process run makes at most about
# 10**5 rows: 48 sweep rows a trial; cycles * duration / dt steps of 6 trace rows
SIZED = {
    "trials": st.integers(1, 4) | st.integers(-2, 2_000),
    "cycles": st.integers(-2, 3),
    "dt": st.floats(1e-3, 2.0) | st.sampled_from([0.0, -0.01, math.nan, math.inf]),
    "duration": st.floats(-1.0, 5.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
}


def rarely(draw):
    return draw(st.integers(0, 9)) == 0


def option_values(action, files):
    """Strategy for the argv values of one option: a list of ``action.nargs`` texts.

    A path is mostly an input file of the right kind, so the subcommand gets past
    reading it. Paths stay inside ``files``, and only ``files / "out"`` is written to.
    Other values are plausible about half the time, rarely free text, and otherwise
    anything of their type.
    """
    names = st.text(st.characters(blacklist_characters="/"), max_size=6).map(
        lambda name: f"{files}/out/f{name}")
    if action.dest == "out":
        value = st.just(f"{files}/out") | names
    elif action.type is None and not action.choices and action.dest != "pressures":
        kind = "*.csv" if action.dest == "input" else "*.yaml"
        inputs = st.sampled_from(sorted(map(str, (files / "in").glob(kind))))
        value = st.integers(0, 3).flatmap(lambda k: inputs if k else names)
    else:
        if action.dest in SIZED:
            value = SIZED[action.dest].map(str)
        elif action.choices:
            value = st.sampled_from(action.choices)
        elif action.dest == "pressures":
            value = st.lists(st.floats(0.0, 100.0) | st.floats(), max_size=4).map(
                lambda xs: ",".join(map(str, xs)))
        else:
            value = (st.integers(0, 10) | st.integers() if action.type is int
                     else st.floats(0.0, 100.0) | st.floats()).map(str)
        value = st.integers(0, 9).flatmap(lambda k, typed=value: typed if k else FREE_TEXT)
    n = action.nargs if isinstance(action.nargs, int) else 1
    return st.lists(value, min_size=n, max_size=n)


@st.composite
def argvs(draw, files):
    """argv for cli.main built from build_parser(): a subcommand, then options and values.

    Required options are given, then up to four more. Rarely the subcommand is free
    text, a required option is left out or an option comes from another subcommand.
    """
    options = subcommand_options()
    every = [a for actions in options.values() for a in actions]
    command = draw(FREE_TEXT) if rarely(draw) else draw(st.sampled_from(sorted(options)))
    own = options.get(command, every)
    chosen = [a for a in own if a.required and not rarely(draw)]
    for action in draw(st.lists(st.sampled_from(own), max_size=4)):
        chosen.append(draw(st.sampled_from(every)) if rarely(draw) else action)
    argv = [command]
    for action in chosen:
        argv += [draw(st.sampled_from(action.option_strings)), *draw(option_values(action, files))]
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """Inputs for random argv under ``in``: sweeps of 1 and 3 trials and a config of each kind."""
    files = tmp_path_factory.mktemp("argv")
    for trials in (1, 3):
        out = files / "in" / f"{trials}-trial"
        assert main(["generate", "--trials", str(trials), "--out", str(out)]) == 0
        (out / "measurements.csv").rename(files / "in" / f"{trials}-trial.csv")
        out.rmdir()
    for flag in ("--schedule", "--layout", "--spec", "--shapes"):
        (files / "in" / f"{flag[2:]}.yaml").write_text(yaml.safe_dump(valid_config(flag)))
    return files


PARSER_NAMES = [*subcommand_options(), *(s for actions in subcommand_options().values()
                                         for a in actions for s in a.option_strings)]

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestFuzz:
    """No input ends in an escaping exception; every exit code is 0, 1 or 2."""

    @FUZZ
    @given(data=st.binary(max_size=400))
    def test_fit_on_random_bytes(self, one_trial_csv, data):
        _, out = one_trial_csv
        (out / "fuzz.csv").write_bytes(data)
        assert run(["fit", "--input", str(out / "fuzz.csv"), "--out", str(out)]) in (0, 1, 2)

    @FUZZ
    @given(data=st.data())
    def test_fit_on_a_sweep_with_odd_fields(self, one_trial_csv, data):
        text, out = one_trial_csv
        (out / "fuzz.csv").write_text(mutate(data, text, [(j, ODD_FIELDS) for j in range(4)]))
        argv = ["fit", "--trials", "1", "--input", str(out / "fuzz.csv"), "--out", str(out)]
        assert run(argv) in (0, 1, 2)

    @FUZZ
    @given(data=st.data())
    def test_fit_on_a_sweep_with_odd_forces(self, one_trial_csv, data):
        text, out = one_trial_csv
        forces = st.floats(min_value=0.0).map(repr)
        (out / "fuzz.csv").write_text(mutate(data, text, [(3, forces)]))
        argv = ["fit", "--trials", "1", "--input", str(out / "fuzz.csv"), "--out", str(out)]
        assert run(argv) in (0, 1, 2)

    @FUZZ
    @given(
        pressures=st.lists(st.floats() | st.integers(-100, 100), max_size=4).map(
            lambda xs: ",".join(map(str, xs))
        ) | st.text(max_size=10)
    )
    def test_predict_on_random_pressures(self, pressures):
        assert run(["predict", f"--pressures={pressures}"]) in (0, 1, 2)

    @FUZZ
    @given(trials=st.integers(-3, 4))
    def test_generate_on_random_trials(self, one_trial_csv, trials):
        _, out = one_trial_csv
        code = run(["generate", "--trials", str(trials), "--out", str(out / "gen")])
        assert code == (0 if trials >= 1 else 2)


    @FUZZ
    @given(data=st.data())
    def test_random_argv(self, argv_dir, capsys, data):
        capsys.readouterr()  # the fixture spans examples: drop what earlier ones printed
        argv = data.draw(argvs(argv_dir))
        code = main(argv)
        first_line = (capsys.readouterr().err.splitlines() or [""])[0]
        if code == 1:
            # it names a subcommand or an option string, or echoes a token of argv
            assert first_line.startswith("usage error:")
            names = [*PARSER_NAMES, *filter(None, argv)]
            assert any(name in first_line for name in names), first_line
        elif code == 2:
            assert first_line.startswith(("error:", "protocol violation:"))
        else:
            assert code == 0

    @settings(max_examples=4, deadline=None)
    # 48 sweep rows a trial; 1.2 / dt steps a cycle, 6 trace rows a step
    @given(argv=st.integers(10**7 // 48 + 1, 10**15).map(lambda n: ["generate", "--trials", str(n)])
           | st.builds(lambda dt, n: ["simulate", "--dt", repr(dt), "--cycles", str(n)],
                       st.floats(1e-300, 1e-7), st.integers(1, 10)))
    def test_random_argv_above_the_row_cap(self, argv_dir, argv):
        out = argv_dir / "above-cap"
        code, err = run_limited([*argv, "--out", str(out)])
        assert code == 2 and err.endswith(" exceeds the cap of 10000000 rows\n")
        assert not out.exists()

    @FUZZ
    @given(flag=CONFIG_FLAGS, data=st.binary(max_size=400))
    def test_config_file_of_random_bytes(self, one_trial_csv, flag, data):
        _, out = one_trial_csv
        (out / "fuzz.yaml").write_bytes(data)
        assert run(config_argv(flag, out / "fuzz.yaml", one_trial_csv, out / "cfg")) in (0, 1, 2)

    @pytest.mark.parametrize("flag", ["--schedule", "--layout", "--spec", "--shapes"])
    def test_unmutated_config_runs(self, one_trial_csv, flag):
        _, out = one_trial_csv
        (out / "valid.yaml").write_text(yaml.safe_dump(valid_config(flag)))
        assert run(config_argv(flag, out / "valid.yaml", one_trial_csv, out / "cfg")) == 0

    @FUZZ
    @given(flag=CONFIG_FLAGS, data=st.data())
    def test_config_with_one_node_replaced(self, one_trial_csv, flag, data):
        _, out = one_trial_csv
        config = valid_config(flag)
        path = data.draw(st.sampled_from(list(nodes(config))))
        config = replaced(config, path, data.draw(YAML_VALUES))
        (out / "fuzz.yaml").write_text(yaml.safe_dump(config))
        assert run(config_argv(flag, out / "fuzz.yaml", one_trial_csv, out / "cfg")) in (0, 1, 2)


class TestWrite:
    def test_ascii_text_written_without_a_whole_copy(self, tmp_path):
        text = "0123456789,abcdef\n" * 230_000  # 4.1 MB; one write() of it encodes a full copy
        tracemalloc.start()
        try:
            path = _write(str(tmp_path), "t.csv", text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert Path(path).read_bytes() == text.encode()

    def test_multibyte_characters_across_slice_edges(self, tmp_path):
        # slices of 8,192 characters end inside runs of 2-, 3- and 4-byte UTF-8 characters
        text = "a" * 8191 + "é€\U0001f600\r\n" * 5000
        assert Path(_write(str(tmp_path), "t.csv", text)).read_bytes() == text.encode()


class TestSimulate:
    def test_default_simulation(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run(["simulate", "--out", str(out), "--duration", "1.2", "--dt", "0.01"]) == 0
        trace = (out / "trace.csv").read_text()
        assert trace.splitlines()[0] == "t_s,actuator_id,commanded_kpa,actual_kpa,force_n,moment_nm"
        root = ET.fromstring((out / "trace.svg").read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 6

    def test_steady_state_force_from_schedule_file(self, tmp_path):
        layout_file = tmp_path / "layout.yaml"
        schedule_file = tmp_path / "schedule.yaml"
        dump_yaml(layout_to_dict(default_layout()), str(layout_file))
        dump_yaml(
            {
                "phases": [
                    {
                        "name": "hold",
                        "fraction": 1.0,
                        "pressures": {"knee_medial": 50.0, "knee_lateral": 50.0},
                    }
                ]
            },
            str(schedule_file),
        )
        out = tmp_path / "sim"
        assert (
            run(
                [
                    "simulate",
                    "--layout",
                    str(layout_file),
                    "--schedule",
                    str(schedule_file),
                    "--duration",
                    "2.0",
                    "--dt",
                    "0.01",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = (out / "trace.csv").read_text().splitlines()
        last_knee = [r for r in rows if ",knee_medial," in r][-1]
        assert float(last_knee.split(",")[4]) == pytest.approx(113.7, abs=1.0)

    def test_noop_schedule_zero_trace(self, tmp_path):
        schedule_file = tmp_path / "idle.yaml"
        dump_yaml(
            {"phases": [{"name": "idle", "fraction": 1.0, "pressures": {}}]},
            str(schedule_file),
        )
        out = tmp_path / "sim"
        assert run(
            ["simulate", "--schedule", str(schedule_file), "--out", str(out)]
        ) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert rows
        assert all(float(r.split(",")[4]) == 0.0 for r in rows)

    def test_dt_longer_than_phase_is_error(self, tmp_path, capsys):
        assert (
            run(["simulate", "--out", str(tmp_path), "--duration", "1.0", "--dt", "0.2"]) == 2
        )

    def test_over_cap_schedule_exits_2(self, tmp_path, capsys):
        schedule_file = tmp_path / "hot.yaml"
        dump_yaml(
            {"phases": [{"name": "hot", "fraction": 1.0, "pressures": {"knee_medial": 55.0}}]},
            str(schedule_file),
        )
        rc = run(["simulate", "--schedule", str(schedule_file), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {schedule_file}: phase 'hot' commands 55.0 kPa "
                                           "on 'knee_medial', outside [0, 50.0]\n")

    def test_moment_past_the_float_range_exits_2_naming_lever_arm(self, tmp_path, capsys):
        # used to exit 0 with a numpy RuntimeWarning and -inf in 708 rows of trace.csv
        layout = layout_to_dict(default_layout())
        layout["actuators"][1]["lever_arm_m"] = 1e308  # thigh_lateral, pressurised in stance
        layout_file = tmp_path / "layout.yaml"
        dump_yaml(layout, str(layout_file))
        assert run(["simulate", "--layout", str(layout_file), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "lever_arm_m" in err
        assert not (tmp_path / "out").exists()

    def test_simulation_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--out", str(a)])
        run(["simulate", "--out", str(b)])
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "trace.svg").read_bytes() == (b / "trace.svg").read_bytes()


class TestConfigIO:
    def test_layout_round_trip(self, tmp_path):
        layout = default_layout()
        path = tmp_path / "layout.yaml"
        dump_yaml(layout_to_dict(layout), str(path))
        assert configio.load_layout(str(path)) == layout

    def test_schedule_round_trip(self, tmp_path):
        schedule = default_valgus_schedule()
        path = tmp_path / "schedule.yaml"
        dump_yaml(schedule_to_dict(schedule), str(path))
        assert configio.load_schedule(str(path)) == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown cross-section kind 'hexagon'$"):
            configio.cross_section_from_dict({"kind": "hexagon", "side_mm": 3})

    def test_unknown_direction_rejected(self):
        layout = layout_to_dict(default_layout())
        layout["actuators"][0]["direction"] = "upward"
        with pytest.raises(ValueError, match="^unknown force direction 'upward'$"):
            configio.layout_from_dict(layout)

    @pytest.mark.parametrize("key, value", [("site", "hip"), ("side", "front")])
    def test_unknown_site_or_side_rejected(self, key, value):
        layout = layout_to_dict(default_layout())
        layout["actuators"][0][key] = value
        with pytest.raises(ValueError, match=f"^unknown {key} '{value}'$"):
            configio.layout_from_dict(layout)

    @pytest.mark.parametrize("from_dict, data, message", [
        ("cross_section_from_dict", {"radius_mm": 25}, "cross-section missing key 'kind'"),
        ("cross_section_from_dict", {"kind": "circle"}, "cross-section missing key 'radius_mm'"),
        ("loss_model_from_dict", {"form": "linear", "slope_per_kpa": -0.005, "intercept": 0.5},
         "loss model missing key 'valid_range_kpa'"),
        ("actuator_spec_from_dict", {"cross_section": {"kind": "circle", "radius_mm": 25}},
         "actuator spec missing key 'loss_model'"),
        ("layout_from_dict", {"actuators": [{"id": "a", "site": "knee", "side": "medial"}]},
         "actuator entry missing key 'spec'"),
        ("schedule_from_dict", {"phases": [{"name": "a"}]}, "phase entry missing key 'fraction'"),
        ("shapes_from_dict", {}, "shapes file missing key 'shapes'"),
        ("layout_from_dict", {}, "layout missing key 'actuators'"),
        ("schedule_from_dict", {}, "schedule missing key 'phases'"),
    ])
    def test_missing_key_is_named(self, from_dict, data, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(configio, from_dict)(data)

    def test_absent_null_or_empty_pressures_command_nothing(self):
        phases = [{"name": "a", "fraction": 0.5}, {"name": "b", "fraction": 0.25, "pressures": None},
                  {"name": "c", "fraction": 0.25, "pressures": {}}]
        schedule = configio.schedule_from_dict({"phases": phases})
        assert [ph.pressures_kpa for ph in schedule.phases] == [{}, {}, {}]

import csv
import io
import os
import re
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shellact import configio
from shellact.brace import default_layout, default_valgus_schedule
from shellact.cli import main
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

    def test_bad_aspect_is_usage_error(self, capsys):
        assert run(["geometry", "--radius", "25", "--aspect", "0.5"]) == 1

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

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


LINEAR_LOSS = "{form: linear, slope_per_kpa: -0.005, intercept: 0.522, valid_range_kpa: [30, 60]}"

# config files that once ended in a traceback: (flag, file text, part of the message)
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


YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)
CONFIG_FLAGS = st.sampled_from(["--schedule", "--layout", "--spec", "--shapes"])


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
        assert (code, err) == (2, "error: measurement CSV line 12: "
                                  "could not convert string to float: '4x5'\n")

    @pytest.mark.parametrize("args, code, rows", [
        (["simulate", "--dt", "1e-9", "--cycles", "10"], 1, "a trace of 72000000000 rows"),
        (["generate", "--trials", "100000000"], 2, "a sweep of 4800000000 rows"),
        (["simulate", "--dt", "1e-320"], 1, "a trace of inf rows"),
    ], ids=["simulate", "generate", "simulate-subnormal-dt"])
    def test_work_above_the_row_cap_is_refused(self, tmp_path, args, code, rows):
        out = tmp_path / "out"
        assert run_limited([*args, "--out", str(out)]) == (
            code, f"error: {rows} exceeds the cap of 10000000 rows\n"
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

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_file_exits_2_naming_it(self, one_trial_csv, tmp_path, capsys, case):
        flag, text, message = BAD_CONFIGS[case]
        path = tmp_path / "config.yaml"
        path.write_text(text)
        assert run(config_argv(flag, path, one_trial_csv, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err



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

    @pytest.mark.parametrize("flag, value, name", [
        ("--duration", "nan", "cycle_duration_s"),
        ("--duration", "inf", "cycle_duration_s"),
        ("--dt", "nan", "dt_s"),
        ("--tau", "nan", "tau_s"),
        ("--tau", "inf", "tau_s"),
        ("--cycles", "-1", "n_cycles"),
        # beyond float range: the step count must not be computed first
        pytest.param("--cycles", "1" + "0" * 400, "n_cycles", id="--cycles-10**400-n_cycles"),
    ])
    def test_bad_simulate_flag_exits_1_naming_it(self, tmp_path, capsys, flag, value, name):
        assert run(["simulate", flag, value, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be ") and err.endswith(f", got {value}\n")
        assert not (tmp_path / "out").exists()

    def test_dt_longer_than_phase_is_error(self, tmp_path, capsys):
        assert (
            run(["simulate", "--out", str(tmp_path), "--duration", "1.0", "--dt", "0.2"]) == 1
        )

    def test_over_cap_schedule_exits_2(self, tmp_path, capsys):
        schedule_file = tmp_path / "hot.yaml"
        dump_yaml(
            {"phases": [{"name": "hot", "fraction": 1.0, "pressures": {"knee_medial": 55.0}}]},
            str(schedule_file),
        )
        rc = run(["simulate", "--schedule", str(schedule_file), "--out", str(tmp_path)])
        assert rc != 0

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
        with pytest.raises(configio.ConfigError):
            configio.cross_section_from_dict({"kind": "hexagon", "side_mm": 3})

    def test_unknown_direction_rejected(self):
        with pytest.raises(configio.ConfigError):
            configio._direction("upward")

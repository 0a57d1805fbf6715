import re
import xml.etree.ElementTree as ET

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shellact import configio
from shellact.brace import default_layout, default_valgus_schedule
from shellact.cli import main

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
        configio.dump_yaml(configio.layout_to_dict(default_layout()), str(layout_file))
        configio.dump_yaml(
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
        configio.dump_yaml(
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
            run(["simulate", "--out", str(tmp_path), "--duration", "1.0", "--dt", "0.2"]) == 1
        )

    def test_over_cap_schedule_exits_2(self, tmp_path, capsys):
        schedule_file = tmp_path / "hot.yaml"
        configio.dump_yaml(
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
        configio.dump_yaml(configio.layout_to_dict(layout), str(path))
        assert configio.load_layout(str(path)) == layout

    def test_schedule_round_trip(self, tmp_path):
        schedule = default_valgus_schedule()
        path = tmp_path / "schedule.yaml"
        configio.dump_yaml(configio.schedule_to_dict(schedule), str(path))
        assert configio.load_schedule(str(path)) == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(configio.ConfigError):
            configio.cross_section_from_dict({"kind": "hexagon", "side_mm": 3})

    def test_unknown_direction_rejected(self):
        with pytest.raises(configio.ConfigError):
            configio._direction("upward")

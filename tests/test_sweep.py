import csv
import io
import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellact.geometry import Circle, equal_area_family, ideal_force
from shellact.loss import BALLOON_LOSS, balloon_spec, loss_fraction, predicted_force
from shellact.rig import RigConfig, generate_sweep
from shellact.sweep import (
    RIG_CAP_KPA,
    SweepDataset,
    SweepProtocol,
    Violation,
    compute_loss_series,
    comparison_report,
    fit_linear_loss,
    _CHUNK_ROWS,
    read_measurements_csv,
    validate_sweep,
    write_measurements_csv,
)
from sweep_reference import (
    MeasurementRecord,
    aggregate_records,
    dataset,
    generate_records,
    read_records_csv,
    rows_of,
    write_records_csv,
)


def read_text(text):
    """read_measurements_csv of the UTF-8 bytes of ``text``."""
    return read_measurements_csv(io.BytesIO(text.encode()))


SHAPES = dict(zip(["circle", "triangle", "square", "rectangle"], equal_area_family(25.0, 2.0)))

# points exactly on the fitted loss line over the [30, 60] window
EXACT_POINTS = [(p, -0.005 * p + 0.522) for p in (30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0)]


STEP_STATS = ("mean_force_n", "n_trials", "n_distinct_trials")
COLUMNS = ("shape_code", "pressure_kpa", "trial", "force_n")


def table_columns(table):
    """Every StepTable column as a list of (type, value) pairs of its Python values."""
    columns = {"shape_id": list(table.shape_id)}
    columns.update({name: getattr(table, name).tolist() for name in ("pressure_kpa", *STEP_STATS)})
    return {name: [(type(v), v) for v in values] for name, values in columns.items()}


def reference_columns(aggregates):
    """The same columns from the reference's {(shape_id, pressure): Aggregate}, in key order."""
    columns = {"shape_id": [sid for sid, _ in aggregates],
               "pressure_kpa": [p for _, p in aggregates]}
    columns.update({name: [getattr(a, name) for a in aggregates.values()] for name in STEP_STATS})
    return {name: [(type(v), v) for v in values] for name, values in columns.items()}


def make_clean_dataset(trials=3):
    spec_by_shape = {sid: balloon_spec(cs) for sid, cs in SHAPES.items()}
    rows = []
    for sid, spec in spec_by_shape.items():
        for p in SweepProtocol(trials=trials).pressures():
            force = predicted_force(p, spec)
            for t in range(1, trials + 1):
                rows.append((sid, p, t, force))
    return dataset(rows)


class TestSweepProtocol:
    def test_default_steps(self):
        pressures = SweepProtocol().pressures()
        assert pressures == [5.0 * i for i in range(1, 13)]

    def test_steps_stop_at_or_below_stop(self):
        assert SweepProtocol(stop_kpa=50.0).pressures() == [5.0 * i for i in range(1, 11)]
        assert SweepProtocol(stop_kpa=5.0).pressures() == [5.0]
        assert SweepProtocol(stop_kpa=59.9).pressures() == [5.0 * i for i in range(1, 12)]

    def test_fields_are_the_stop_and_the_trials(self):
        # the repr reaches the measurement CSV's config digest
        assert repr(SweepProtocol()) == "SweepProtocol(stop_kpa=60.0, trials=3)"
        assert SweepProtocol().stop_kpa == RIG_CAP_KPA

    @pytest.mark.parametrize("fields, message", [
        ({"trials": 0}, "trials must be >= 1, got 0"),
        # NaN, an infinite stop and any stop past the rig's cap, where every step would be
        # flagged over cap and the step list is built before the row cap is checked
        *[({"stop_kpa": stop}, f"stop_kpa must be in [5.0, 60.0] kPa, got {stop!r}")
          for stop in (math.nan, math.inf, -math.inf, 4.9, 0.0, -60.0, 60.0001, 65.0, 5e6)],
    ])
    def test_bad_field_named_with_its_value(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepProtocol(**fields)


class TestAggregation:
    def test_mean_is_arithmetic_mean(self):
        ds = dataset([("c", 30.0, 1, 10.0), ("c", 30.0, 2, 11.0), ("c", 30.0, 3, 12.0)])
        table = ds.aggregates()
        assert (table.shape_id, table.pressure_kpa.tolist()) == (("c",), [30.0])
        assert table.mean_force_n.tolist() == [pytest.approx(11.0)]
        assert table.n_trials.tolist() == [3]
        assert table.n_distinct_trials.tolist() == [3]

    def test_steps_in_shape_id_then_pressure_order(self):
        rows = [("b", 10.0, 1, 1.0), ("a\x00", 5.0, 1, 2.0), ("a", 10.0, 1, 3.0),
                ("a", 5.0, 2, 4.0), ("a", 5.0, 1, 5.0)]
        table = dataset(rows).aggregates()
        assert table.shape_id == ("a", "a", "a\x00", "b")
        assert table.pressure_kpa.tolist() == [5.0, 10.0, 5.0, 10.0]
        assert table.mean_force_n.tolist() == [4.5, 3.0, 2.0, 1.0]
        assert table.n_distinct_trials.tolist() == [2, 1, 1, 1]

    @pytest.mark.parametrize("ds, sorts", [
        # first-seen codes (b, a) are not in name order; the rows are
        (SweepDataset(("b", "a"), np.array([1, 1, 0]), np.array([5.0, 10.0, 5.0]),
                      np.array([1, 1, 2]), np.array([1.0, 2.0, 3.0])), False),
        (dataset([("c", 5.0, 3, 1.0), ("c", 5.0, 2, 2.0), ("c", 5.0, 2, 3.0), ("c", 10.0, 1, 4.0)]),
         True),
        (dataset([("a", 5.0, 1, 1.0), ("a", 5.0, 1, 1.5), ("a\x00", 5.0, 1, 2.0)]), False),
        (dataset([("a\x00", 5.0, 1, 1.0), ("a", 5.0, 1, 2.0)]), True),
        (dataset([("c", 30.0, 1, 2.5)]), False),
        (dataset([]), False),
    ], ids=["codes-b-before-a", "descending-trial", "a-then-a-nul", "a-nul-then-a", "one-row",
            "empty"])
    def test_rows_in_step_order_skip_the_sort(self, monkeypatch, ds, sorts):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
        table = ds.aggregates()
        assert bool(calls) == sorts
        reversed_rows = SweepDataset(ds.shape_names, *(getattr(ds, c)[::-1] for c in COLUMNS))
        assert table_columns(reversed_rows.aggregates()) == table_columns(table)
        records = [MeasurementRecord(*row) for row in rows_of(ds)]
        assert table_columns(table) == reference_columns(aggregate_records(records))

    def test_empty_dataset_has_no_aggregates(self):
        table = dataset([]).aggregates()
        assert table.shape_id == ()
        assert all(not values for values in table_columns(table).values())

    def test_permutation_invariance(self):
        ds = make_clean_dataset()
        rows = rows_of(ds)
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(rows)
            shuffled = dataset(rows)
            assert table_columns(shuffled.aggregates()) == table_columns(ds.aggregates())
            series = compute_loss_series(shuffled.aggregates(), SHAPES)
            rep = fit_linear_loss(series["circle"])
            rep0 = fit_linear_loss(compute_loss_series(ds.aggregates(), SHAPES)["circle"])
            assert rep == rep0

    def test_record_invariants(self):
        with pytest.raises(ValueError, match=r"^pressure_kpa must be > 0, got 0.0$"):
            dataset([("c", 0.0, 1, 5.0)])
        with pytest.raises(ValueError, match=r"^trial must be >= 1, got 0$"):
            dataset([("c", 30.0, 0, 5.0)])
        with pytest.raises(ValueError, match=r"^force_n must be >= 0, got -5.0$"):
            dataset([("c", 30.0, 1, -5.0)])

    @pytest.mark.parametrize(
        "row, message",
        [
            (("c", math.nan, 1, 5.0), "pressure_kpa must be > 0, got nan"),
            (("c", math.inf, 1, 5.0), "pressure_kpa must be > 0, got inf"),
            (("c", -1.0, 1, 5.0), "pressure_kpa must be > 0, got -1.0"),
            (("c", 30.0, 1, math.nan), "force_n must be >= 0, got nan"),
            (("c", 30.0, 1, math.inf), "force_n must be >= 0, got inf"),
            (("c", 30.0, -2, 5.0), "trial must be >= 1, got -2"),
        ],
    )
    def test_column_checks_name_the_first_offending_value(self, row, message):
        good = ("c", 30.0, 1, 5.0)
        with pytest.raises(ValueError) as info:
            dataset([good, row, good, (row[0], 2 * row[1], row[2] - 1, 2 * row[3])])
        assert str(info.value) == message

    def test_malformed_columns_rejected(self):
        one = (np.array([0]), np.array([30.0]), np.array([1]), np.array([5.0]))
        SweepDataset(("c",), *one)
        with pytest.raises(ValueError, match="distinct"):
            SweepDataset(("c", "c"), *one)
        with pytest.raises(ValueError, match="differ in length"):
            SweepDataset(("c",), one[0], one[1], np.array([1, 2]), one[3])
        with pytest.raises(ValueError, match="shape_code 1 is out of range"):
            SweepDataset(("c",), np.array([1]), *one[1:])


def broken_sweep(kind):
    """validate_sweep's violations for a sweep broken in the way ``kind`` names."""
    rows = rows_of(make_clean_dataset())
    protocol = SweepProtocol()
    if kind == "empty sweep":
        return validate_sweep(dataset([]).aggregates(), protocol)
    if kind == "missing step":
        rows = [r for r in rows if not (r[0] == "square" and r[1] == 45.0)]
    elif kind == "trial count mismatch":
        rows = [r for r in rows if not (r[0] == "circle" and r[1] == 30.0 and r[2] == 3)]
    elif kind == "unexpected step":  # between the protocol's 30 and 35 kPa steps
        rows += [("circle", 32.5, t, 30.0) for t in (1, 2, 3)]
    elif kind == "duplicate trial":
        # two trial-1 rows and no trial 2: the row count matches the protocol
        rows = [(sid, p, 1 if (sid, p, t) == ("circle", 30.0, 2) else t, f)
                for sid, p, t, f in rows]
    else:  # one step past the cap, beyond the protocol's last
        rows += [("circle", 70.0, t, 50.0) for t in (1, 2, 3)]
    return validate_sweep(dataset(rows).aggregates(), protocol)


class TestValidateSweep:
    def test_empty_sweep_is_a_violation(self):
        assert broken_sweep("empty sweep") == [
            Violation("empty sweep", "the dataset has no measurement rows")
        ]

    def test_conformant_dataset(self):
        assert validate_sweep(make_clean_dataset().aggregates(), SweepProtocol()) == []

    def test_missing_step(self):
        assert broken_sweep("missing step") == [
            Violation("missing step", "shape 'square' has no 45 kPa record")
        ]

    def test_trial_count_mismatch(self):
        assert broken_sweep("trial count mismatch") == [
            Violation("trial count mismatch", "shape 'circle' at 30 kPa has 2 trials, expected 3")
        ]

    def test_duplicate_trial(self):
        assert broken_sweep("duplicate trial") == [Violation(
            "duplicate trial", "shape 'circle' at 30 kPa has 3 rows but 2 distinct trial ids"
        )]

    def test_over_cap(self):
        assert Violation(
            "over cap", "shape 'circle' record at 70 kPa exceeds the 60 kPa cap"
        ) in broken_sweep("over cap")

    # `fit` prints each after "protocol violation: "; the text is part of the CLI's output
    @pytest.mark.parametrize("kind, text", [
        ("empty sweep", "empty sweep: the dataset has no measurement rows"),
        ("missing step", "missing step: shape 'square' has no 45 kPa record"),
        ("trial count mismatch",
         "trial count mismatch: shape 'circle' at 30 kPa has 2 trials, expected 3"),
        ("duplicate trial",
         "duplicate trial: shape 'circle' at 30 kPa has 3 rows but 2 distinct trial ids"),
        ("over cap", "over cap: shape 'circle' record at 70 kPa exceeds the 60 kPa cap"),
        ("unexpected step",
         "unexpected step: shape 'circle' has a 32.5 kPa record outside the protocol"),
    ])
    def test_kind_and_text(self, kind, text):
        assert [(v.kind, str(v)) for v in broken_sweep(kind)] == [(kind, text)]


class TestLossSeries:
    def test_noiseless_round_trip(self):
        series = compute_loss_series(make_clean_dataset().aggregates(), SHAPES)
        for sid, pts in series.items():
            model = BALLOON_LOSS
            for p, loss in pts:
                expected = loss_fraction(p, model)
                assert loss == pytest.approx(expected, abs=1e-12)

    def test_paper_endpoint_values(self):
        ds = dataset([("circle", 60.0, 1, 91.66), ("circle", 30.0, 1, 36.99)])
        series = dict(compute_loss_series(ds.aggregates(), {"circle": Circle(25.0)}))
        by_p = dict(series["circle"])
        assert by_p[60.0] == pytest.approx(0.222, abs=1e-4)
        assert by_p[30.0] == pytest.approx(0.372, abs=1e-4)

    def test_unknown_shape(self):
        ds = dataset([("mystery", 30.0, 1, 10.0)])
        with pytest.raises(ValueError, match="^shape 'mystery' has no cross-section$"):
            compute_loss_series(ds.aggregates(), SHAPES)


def sse(points, slope, intercept):
    return math.fsum((y - (slope * x + intercept)) ** 2 for x, y in points)


def grid_search_fit(points, slope_range, center_range, n=201):
    """Brute-force SSE minimizer over a (slope, value-at-mean-x) grid.

    The centered parametrization y = s*(x - mean) + c keeps the two grid
    axes independent, so the argmin lands within one grid step of the true
    minimizer in each coordinate.
    """
    slopes = np.linspace(*slope_range, n)
    centers = np.linspace(*center_range, n)
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    xc = xs - xs.mean()
    pred = slopes[:, None, None] * xc[None, None, :] + centers[None, :, None]
    err = ((ys[None, None, :] - pred) ** 2).sum(axis=2)
    i, j = np.unravel_index(err.argmin(), err.shape)
    return slopes[i], centers[j], (slopes[1] - slopes[0], centers[1] - centers[0])


class TestFitLinearLoss:
    def test_exact_points_recover_line(self):
        rep = fit_linear_loss(EXACT_POINTS)
        assert rep.slope_per_kpa == pytest.approx(-0.005, abs=1e-12)
        assert rep.intercept == pytest.approx(0.522, abs=1e-12)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_filters_points(self):
        pts = EXACT_POINTS + [(5.0, 0.70), (10.0, 0.65)]  # pre-knee points off the line
        rep = fit_linear_loss(pts, window_kpa=(30.0, 60.0))
        assert rep.slope_per_kpa == pytest.approx(-0.005, abs=1e-12)

    @pytest.mark.parametrize("window", [(60.0, 30.0), (math.nan, 30.0), (30.0, math.inf),
                                        (-10.0, 60.0), (30.0, 45.0, 60.0), (30.0,)])
    def test_bad_window_is_named(self, window):
        message = f"window_kpa must be finite with 0 <= lo < hi, got {window!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_linear_loss(EXACT_POINTS, window)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match=r"^pooled series: need >= 3 points inside window \[30.0, 60.0\], got 2"):
            fit_linear_loss(EXACT_POINTS[:2])

    def test_degenerate_pressures(self):
        with pytest.raises(ValueError, match="^pooled series: all pressures identical; slope is unconstrained$"):
            fit_linear_loss([(40.0, 0.3), (40.0, 0.31), (40.0, 0.32)])

    def test_overflowing_losses_name_the_series(self):
        pts = [(30.0, 0.3), (45.0, -1e300), (60.0, 0.2)]
        too_large = r"^shape 'circle': loss values too large to fit, up to 1e\+300"
        with pytest.raises(ValueError, match=too_large):
            fit_linear_loss(pts, label="shape 'circle'")
        with pytest.raises(ValueError, match="^pooled series: "):
            fit_linear_loss(pts)

    def test_monte_carlo_slope_recovery(self):
        # tolerance pinned by the pre-build oracle: 3 trials averaged per
        # pressure, sigma 0.01 in loss space, slope sd ~= 2.2e-4
        ps = np.array([p for p, _ in EXACT_POINTS])
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            noisy = -0.005 * ps + 0.522 + rng.normal(0.0, 0.01, (3, ps.size)).mean(axis=0)
            rep = fit_linear_loss(list(zip(ps, noisy)))
            if abs(rep.slope_per_kpa + 0.005) <= 8e-4:
                hits += 1
        assert hits >= 190

    def test_r_squared_decreases_with_noise(self):
        ps = np.array([p for p, _ in EXACT_POINTS])
        mean_r2 = []
        for sigma in (0.0, 0.005, 0.01, 0.02):
            vals = []
            for seed in range(100):
                rng = np.random.default_rng(1000 + seed)
                noisy = -0.005 * ps + 0.522 + rng.normal(0.0, sigma, ps.size)
                vals.append(fit_linear_loss(list(zip(ps, noisy))).r_squared)
            mean_r2.append(np.mean(vals))
        assert all(b < a for a, b in zip(mean_r2, mean_r2[1:]))

    def test_against_grid_search_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            slope_t = rng.uniform(-0.008, -0.002)
            icpt_t = rng.uniform(0.3, 0.7)
            ps = np.arange(30.0, 61.0, 5.0)
            ys = slope_t * ps + icpt_t + rng.normal(0, 0.01, ps.size)
            pts = list(zip(ps, ys))
            rep = fit_linear_loss(pts)
            gs, gc, (res_s, res_c) = grid_search_fit(
                pts, (slope_t - 0.002, slope_t + 0.002), (ys.mean() - 0.1, ys.mean() + 0.1)
            )
            assert abs(rep.slope_per_kpa - gs) <= res_s
            assert abs((rep.slope_per_kpa * ps.mean() + rep.intercept) - gc) <= res_c


def report_rows(table, shapes=SHAPES, fitted=BALLOON_LOSS):
    """comparison_report's CSV rows as dicts, numbers parsed back to floats."""
    rows = list(csv.DictReader(io.StringIO(comparison_report(table, shapes, fitted))))
    return [{k: v if k == "shape_id" else float(v) for k, v in row.items()} for row in rows]


class TestComparisonReport:
    def test_reference_row_values(self):
        rows = report_rows(make_clean_dataset().aggregates())
        at60 = next(r for r in rows if r["shape_id"] == "circle" and r["pressure_kpa"] == 60.0)
        assert at60["ideal_force_n"] == pytest.approx(117.81, abs=0.01)
        assert at60["predicted_force_n"] == pytest.approx(91.66, abs=0.01)
        assert at60["mean_measured_force_n"] == pytest.approx(91.66, abs=0.01)

    def test_shape_loss_ordering_on_synthetic_data(self):
        # built to the reported ordering: square/rectangle lose least,
        # triangle most, circle between
        offsets = {"square": -0.02, "rectangle": -0.02, "circle": 0.0, "triangle": 0.03}
        records = []
        for sid, cs in SHAPES.items():
            spec = balloon_spec(cs)
            for p in (30.0, 40.0, 50.0, 60.0):
                loss = loss_fraction(p, spec.loss_model) + offsets[sid]
                records.append((sid, p, 1, ideal_force(p, cs) * (1 - loss)))
        rows = report_rows(dataset(records).aggregates())
        by = {(r["shape_id"], r["pressure_kpa"]): r["loss_fraction"] for r in rows}
        for p in (30.0, 40.0, 50.0, 60.0):
            assert by[("square", p)] <= by[("circle", p)] <= by[("triangle", p)]
            assert by[("rectangle", p)] <= by[("circle", p)]


class TestCsvRoundTrip:
    def test_measurement_round_trip(self):
        ds = make_clean_dataset()
        text = write_measurements_csv(ds)
        back = read_text(text)
        assert sorted(back.shape_names) == sorted(ds.shape_names)
        assert len(back.force_n) == len(ds.force_n)
        # forces survive to 4 decimal places
        for a, b in zip(rows_of(ds), rows_of(back)):
            assert b[3] == pytest.approx(a[3], abs=5e-5)

    def test_writer_holds_the_text_once(self):
        # 96k rows are 24 chunks; a StringIO and its getvalue() put the traced peak at 2x the text
        ds = generate_sweep(rig_config(list(SHAPES), 2000, 0, 0.5))
        tracemalloc.start()
        try:
            text = write_measurements_csv(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = len(text) * _CHUNK_ROWS / len(ds.force_n)
        assert peak < 1.25 * len(text) + 4 * chunk, (peak, len(text))

    def test_provenance_comments_preserved(self):
        ds = dataset([("c", 30.0, 1, 10.0)], ("seed: 42",))
        text = write_measurements_csv(ds)
        assert text.startswith("# seed: 42\n")
        assert read_text(text).provenance == ("seed: 42",)

    def test_report_csv_header(self):
        text = comparison_report(make_clean_dataset().aggregates(), SHAPES, BALLOON_LOSS)
        assert text.splitlines()[0] == (
            "shape_id,pressure_kpa,ideal_force_n,predicted_force_n,"
            "mean_measured_force_n,loss_fraction"
        )

    # ids with a line break that csv_field leaves unquoted must not end a row
    @pytest.mark.parametrize("shape_id", ["#x", "a\nb", "a\r\nb", "a\n\nb", "a\rb", "a,b", 'a"b',
                                          "a\x0bb", "a\x0cb", "a\x1cb", "a\x1db", "a\x1eb",
                                          "a\x85b", "a\u2028b", "a\u2029b"])
    def test_shape_id_round_trip(self, shape_id):
        rows = [("c", 30.0, 1, 10.0), (shape_id, 30.0, 1, 10.0), (shape_id, 35.0, 2, 12.5)]
        ds = dataset(rows, ("seed: 1",))
        back = read_text(write_measurements_csv(ds))
        assert back.shape_names == ds.shape_names
        assert rows_of(back) == rows
        assert back.provenance == ds.provenance

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_text("a,b,c\n1,2,3\n")

    def test_header_field_past_the_csv_module_limit_is_a_bad_header(self):
        message = "^bad measurement header \\['shape_id', 'pressure_kpa', 'xxx"
        with pytest.raises(ValueError, match=message):
            read_text(f"shape_id,pressure_kpa,{'x' * 200_000},force_n\nc,30,1,2\n")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("circle,30.0\n", "line 5: the dtype passed requires 4 columns but 2 were found"),
            ("circle,30.0,1,2.0,9\n", "line 5: the dtype passed requires 4 columns but 5 were found"),
            # after the header a '#' line is a row, not provenance
            ("circle,30.0,1,2.0\n\n# note\ncircle,x,2,2.0\n",
             "line 7: the dtype passed requires 4 columns but 1 were found"),
            ("circle,30.0,1,2.0\n\ncircle,x,2,2.0\n", "line 7: could not convert string 'x' to float64"),
            ("circle,30.0,1.5,2.0\n", "line 5: could not convert string '1.5' to int64"),
            ("circle,30.0,99999999999999999999,2.0\n",
             "line 5: could not convert string '99999999999999999999' to int64"),
            # Python's float and int take these; np.loadtxt does not
            ("circle,1_0,1,2.0\n", "line 5: could not convert string '1_0' to float64"),
            ("circle,30.0,1_0,2.0\n", "line 5: could not convert string '1_0' to int64"),
            ("circle,30.0,1,\u0663\n", "line 5: could not convert string '\u0663' to float64"),
            ("circle,30.0,\u01fe,2.0\n", "line 5: could not convert string '\u01fe' to int64"),
            # loadtxt's repr escapes U+0085's second byte, so its first is no longer UTF-8
            ("circle,30\u0085,1,2.0\n",
             "line 5: could not convert string '30\ufffd\\x85' to float64"),
            # an id past the csv module's default field limit, which loadtxt reads
            pytest.param(f'"{"x" * 140_000}",30.0,1,2.0\ncircle,35.0,1,2.0\na,3,1\n',
                         "line 7: the dtype passed requires 4 columns but 3 were found",
                         id="long-id-then-short-row"),
        ],
    )
    def test_malformed_row_names_its_line(self, body, message):
        text = "# seed: 1\n\nshape_id,pressure_kpa,trial,force_n\ncircle,30.0,1,2.0\n" + body
        limit = csv.field_size_limit()
        with pytest.raises(ValueError) as info:
            read_text(text)
        assert str(info.value).startswith(f"measurement CSV {message}")
        assert csv.field_size_limit() == limit

    def test_malformed_row_in_a_later_chunk(self):
        rows = [f"c,30.0,{t},2.0" for t in range(1, 10_001)]
        rows[9_000] = "c,30.0"
        text = "shape_id,pressure_kpa,trial,force_n\n" + "\n".join(rows) + "\n"
        message = "^measurement CSV line 9002: the dtype passed requires 4 columns but 2 were found$"
        with pytest.raises(ValueError, match=message):
            read_text(text)

    def test_lone_surrogate_in_an_id_is_refused(self):
        # U+D800 has no UTF-8 form: its three-byte encoding is not UTF-8
        data = io.BytesIO(b"shape_id,pressure_kpa,trial,force_n\na\xed\xa0\x80,30,1,2\n")
        with pytest.raises(ValueError, match="^measurement CSV line 2: 'utf-8' codec can't decode"):
            read_measurements_csv(data)

    @pytest.mark.parametrize("body, line", [
        ("\xff,30,1,2\n", 2),
        ('c,30,1,2\n"a\nb\xff",30,1,2\n', 4),
        # loadtxt takes these lone bytes beside a number for spaces
        ("c,30\x85,1,2\n", 2),
        ("c,30,1,2\nc,35,1,\xa02.5\n", 3),
        ("c,30,1,2\n" + "c,35,1,2.5\r" * 5000 + 'c,40,1,"3\x85"\n', 5003),
    ], ids=["id", "quoted-id", "pressure", "force", "later-chunk"])
    def test_body_that_is_not_utf8_refused_naming_its_line(self, body, line):
        data = io.BytesIO(HEADER.encode() + body.encode("latin-1"))
        with pytest.raises(ValueError, match=f"^measurement CSV line {line}: 'utf-8' codec can't"):
            read_measurements_csv(data)

    @pytest.mark.parametrize("data", [b"# seed \xff\n", b"\x85\n", b"shape_id\xff,"])
    def test_head_that_is_not_utf8_refused(self, data):
        with pytest.raises(ValueError, match="^measurement CSV line 1: 'utf-8' codec"):
            read_measurements_csv(io.BytesIO(data + HEADER.encode() + b"c,30,1,2\n"))

    def test_stream_left_open_and_read_from_its_start(self):
        data = io.BytesIO(HEADER.encode() + b"c,30,1,2\n")
        data.seek(5)
        for _ in range(2):
            assert rows_of(read_measurements_csv(data)) == [("c", 30.0, 1, 2.0)]
        assert not data.closed

    def test_peak_memory_is_the_columns_plus_one_chunk(self):
        read_text(HEADER + "c,30,1,2\n")  # the first call's imports are not the reader's memory
        data = io.BytesIO(LONG_ID_TEXT.encode())
        tracemalloc.start()
        try:
            ds = read_measurements_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(ds, c).nbytes for c in COLUMNS)
        # the chunks and their concatenation, and one chunk's rows as Python objects
        assert peak < 2 * columns + 256 * _CHUNK_ROWS, (peak, columns)

    def test_refused_last_row_is_found_again_a_chunk_at_a_time(self):
        columns = sum(getattr(read_text(LONG_ID_TEXT), c).nbytes for c in COLUMNS)
        data = io.BytesIO(LONG_ID_TEXT[:LONG_ID_TEXT.rindex(",")].encode() + b",x\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^measurement CSV line 60001: could not convert "):
                read_measurements_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the columns read before the refusal, and one chunk's rows of the second reading
        assert peak < 2 * columns + 256 * _CHUNK_ROWS, (peak, columns)

    def test_row_values_checked_after_parsing(self):
        with pytest.raises(ValueError, match=r"^pressure_kpa must be > 0, got -1.0$"):
            read_text("shape_id,pressure_kpa,trial,force_n\nc,-1,1,2\n")


HEADER = "shape_id,pressure_kpa,trial,force_n\n"

# 60k rows whose long ids make the text twice the columns' bytes, so holding it would show
LONG_ID_TEXT = HEADER + "".join(f"rounded_rectangle_60x40_r8_engineered_{t // 5000},"
                                f"{30 + t % 7}.0000,{t},{t % 97}.2500\n" for t in range(1, 60_001))


def assert_reads_as_reference(text):
    """The reader's rows and provenance equal the per-record reference's."""
    back = read_text(text)
    records, provenance = read_records_csv(text)
    assert rows_of(back) == [(r.shape_id, r.pressure_kpa, r.trial, r.force_n) for r in records]
    assert back.provenance == tuple(provenance)


@pytest.mark.filterwarnings("error")
class TestChunkEdges:
    """Bodies that meet the reader's chunks of _CHUNK_ROWS rows at their edges; no warning escapes."""

    def test_header_only_is_an_empty_sweep(self):
        ds = read_text("# seed: 1\n" + HEADER)
        assert len(ds.force_n) == 0 and ds.shape_names == ()
        assert [v.kind for v in validate_sweep(ds.aggregates(), SweepProtocol())] == ["empty sweep"]

    def test_body_of_blank_lines_is_an_empty_sweep(self):
        assert len(read_text(HEADER + "\n\r\n\r\n").force_n) == 0

    def test_exactly_two_chunks(self):
        text = HEADER + "".join(f"c{t % 3},30.0,{t},2.5\n" for t in range(1, 2 * _CHUNK_ROWS + 1))
        assert len(read_text(text).force_n) == 2 * _CHUNK_ROWS
        assert_reads_as_reference(text)

    def test_blank_lines_scattered_through_the_body(self):
        rng = random.Random(3)
        rows = [f"c,{rng.choice([30, 35])}.0,{t},2.5" + rng.choice(["\n", "\r\n", "\r"])
                + "\n" * rng.choice([0, 0, 0, 1, 2]) for t in range(1, 10_001)]
        assert_reads_as_reference(HEADER + "".join(rows))

    @pytest.mark.parametrize("bad", ["c,30", "c,30,1,2,9", "c,x,1,2", "c,30,1.5,2", "c,30,1,\u0663"])
    @pytest.mark.parametrize("crlf_id", [False, True], ids=["plain", "crlf-id-before"])
    @pytest.mark.parametrize("row", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS])
    def test_refused_row_at_a_chunk_edge_named_as_the_reference(self, row, crlf_id, bad):
        rows = [f"c,30,{t},2.5\n" for t in range(1, 2 * _CHUNK_ROWS + 3)]
        rows[row - 1] = bad + "\n"  # the body's row-th row, so the last row of a chunk at times
        if crlf_id:  # a row of two lines just before it
            rows[row - 2] = '"a\r\nb",30,1,2.5\n'
        text = HEADER + "".join(rows)
        with pytest.raises(ValueError) as ref:
            read_records_csv(text)
        line = str(ref.value).split(":")[0]
        assert line == f"measurement CSV line {row + 1 + crlf_id}"
        with pytest.raises(ValueError, match=f"^{line}: "):
            read_text(text)

    @pytest.mark.parametrize("row", [_CHUNK_ROWS - 1, _CHUNK_ROWS])
    def test_quoted_line_break_across_a_chunk_edge(self, row):
        rows = [("c", 30.0, t, 2.5) for t in range(1, 2 * _CHUNK_ROWS)]
        rows[row] = ("a\nb", 30.0, row + 1, 1.0)
        rows[row + 1] = ("a\nb", 35.0, row + 2, 1.0)
        assert rows_of(read_text(write_measurements_csv(dataset(rows)))) == rows


# fields that CSV quoting, number syntax and line ends can trip on
FIELD = st.sampled_from([
    '"', '""', '"a""b"', '"a,b"', '"x\ny"', '"x\ry"', "\x00", "é", "+1", ".5", " 2.5 ", "nan",
    "Infinity", "-inf", "1e3", "1.", "007", '"7"', "1_0", "\u0663", "\xa02\xa0", "x", "", "-1",
    "99999999999999999999", "9223372036854775807", "\u01fe", "\U00057a16",
]) | st.text(max_size=3)
GOOD_FLOAT = st.sampled_from(["30", "2.5", "+1", ".5", " 2.5 ", "1e1", "1.", '"7"', "\x0b3\x1c"])
GOOD_INT = st.sampled_from(["1", "+2", " 3 ", "007", '"4"', "9223372036854775807"])
ROW = (st.tuples(FIELD, GOOD_FLOAT, GOOD_INT, GOOD_FLOAT).map(",".join)
       | st.lists(FIELD, min_size=1, max_size=5).map(",".join))
LINE_END = st.sampled_from(["\n", "\r\n", "\r", "\n\n"])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(ROW, LINE_END), max_size=8), last=st.sampled_from(["", "\n"]))
def test_reader_parity_with_reference(rows, last):
    text = "# seed: 1\r\n" + HEADER + "".join(row + end for row, end in rows) + last
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read_records_csv(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                read_text(text)
            refused = str(exc).split(":")[0]  # "measurement CSV line N" for a refused row
            if refused.startswith("measurement CSV line"):
                assert str(info.value).startswith(refused + ":")
            assert not str(info.value).startswith("bad measurement CSV")
        else:
            assert_reads_as_reference(text)


def rig_config(ids, trials, seed, sigma):
    family = list(SHAPES.values())
    return RigConfig(
        ground_truth={sid: balloon_spec(family[i % len(family)]) for i, sid in enumerate(ids)},
        protocol=SweepProtocol(trials=trials),
        noise_sigma_n=sigma,
        seed=seed,
    )


def assert_matches_reference(cfg):
    """Columnar generate, write, read and aggregate equal the per-record reference."""
    records, provenance = generate_records(cfg)
    text = write_records_csv(records, provenance)
    assert write_measurements_csv(generate_sweep(cfg)) == text
    back = read_text(text)
    ref_records, ref_provenance = read_records_csv(text)
    assert back.shape_names == tuple(sorted(cfg.ground_truth))
    assert [r.shape_id for r in ref_records] == [r.shape_id for r in records]
    assert back.provenance == tuple(ref_provenance) == tuple(provenance)
    assert table_columns(back.aggregates()) == reference_columns(aggregate_records(ref_records))


# shape ids that need CSV quoting or look like provenance, besides free text
SHAPE_ID = st.sampled_from(["circle", "a,b", 'q"x', "", " pad ", "#x", "a\nb", "a\rb"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=5
)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(SHAPE_ID, min_size=1, max_size=4, unique=True),
        trials=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.just(0.0) | st.floats(0.0, 80.0),
    )
    def test_columnar_pipeline_equals_per_record_code(self, ids, trials, seed, sigma):
        assert_matches_reference(rig_config(ids, trials, seed, sigma))

    def test_shape_ids_with_odd_bytes_written_as_the_reference(self):
        rows = [(sid, 30.0 + i, i, 2.5 * i) for i, sid in enumerate(["a\x00b", "é", "a,b", 'q"x'], 1)]
        records = [MeasurementRecord(*row) for row in rows]
        assert write_measurements_csv(dataset(rows)) == write_records_csv(records, ())

    def test_rows_span_several_chunks(self):
        # 4 shapes x 12 steps x 100 trials = 4800 rows, more than one chunk
        assert_matches_reference(rig_config(list(SHAPES), 100, 7, 0.6))
